"""Experiment registry: every paper table/figure → its benchmark target.

This is the machine-readable version of DESIGN.md's per-experiment index.
A test asserts that every registered bench file exists and every bench
file is registered, so the documentation cannot silently drift from the
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Experiment:
    """One reproducible evaluation artefact of the paper."""

    exp_id: str  # paper's table/figure id, e.g. "fig6e"
    title: str
    workload: str
    modules: Tuple[str, ...]
    bench: str  # file under benchmarks/


_E = Experiment

EXPERIMENTS: Dict[str, Experiment] = {
    e.exp_id: e
    for e in [
        _E("fig1", "Flow properties: heavy-tailed size/byte CDFs",
           "truncated-Pareto samples calibrated to Fig. 1",
           ("repro.traces.distributions", "repro.analysis"),
           "bench_fig1_flow_properties.py"),
        _E("fig2", "CPU idle periods vs bandwidth",
           "HiBench large suite on the cluster simulator, SEBF",
           ("repro.cluster", "repro.cpu.monitor"),
           "bench_fig2_cpu_utilization.py"),
        _E("table1", "Intermediate data of one shuffle block per app",
           "one shuffle per Table I app through FVDF on a thin link",
           ("repro.traces.spark", "repro.compression"),
           "bench_table1_intermediate_data.py"),
        _E("table2", "Codec compression parameters",
           "registry echo + live zlib measurement",
           ("repro.compression.codecs", "repro.compression.calibrate"),
           "bench_table2_codecs.py"),
        _E("table3", "Compression ratio vs flow size",
           "size-model sweep 10 KB → 10 GB + live zlib shape check",
           ("repro.compression.model",),
           "bench_table3_ratio_vs_size.py"),
        _E("fig4", "Motivating example: 6 policies on the 3×3 fabric",
           "C1 = {4,4,2}, C2 = {2,3} data units (exact baseline match)",
           ("repro.scenarios", "repro.schedulers", "repro.core.simulator"),
           "bench_fig4_motivating_example.py"),
        _E("fig6a", "Avg-FCT speedup per trace percentile",
           "300 singleton flows, log-normal sizes, 200 Mbps",
           ("repro.core.fvdf", "repro.schedulers.flow_level"),
           "bench_fig6a_fct_percentiles.py"),
        _E("fig6b", "Avg-FCT speedup per flow-size class",
           "same flow trace, 3 size classes",
           ("repro.core.metrics",),
           "bench_fig6b_fct_by_size.py"),
        _E("fig6c", "Avg-FCT speedup vs parallel-flow count",
           "batches of 30/100/300 simultaneous flows",
           ("repro.traces.generator",),
           "bench_fig6c_parallel_flows.py"),
        _E("fig6d", "CDF of FCT per algorithm",
           "same flow trace; completion-of-all-flows metric",
           ("repro.analysis",),
           "bench_fig6d_fct_cdf.py"),
        _E("fig6e", "CCT speedup vs bandwidth (6 coflow baselines)",
           "40 coflows, width 1–8, 100 Mbps → 10 Gbps sweep",
           ("repro.schedulers.coflow_level",),
           "bench_fig6e_cct_bandwidth.py"),
        _E("fig6f", "Speedup over SEBF per compression format",
           "same coflow trace, LZ4/Snappy/LZF/LZO/Zstd",
           ("repro.compression.codecs",),
           "bench_fig6f_codecs.py"),
        _E("table5", "Job throughput per time unit",
           "150 ten-flow jobs, backlogged fabric, 25 s windows",
           ("repro.core.metrics",),
           "bench_table5_throughput.py"),
        _E("table6", "Absolute CCT / job duration per algorithm",
           "coflow trace at 100 Mbps",
           ("repro.schedulers",),
           "bench_table6_cct.py"),
        _E("fig7a", "Per-stage JCT improvement",
           "HiBench large suite, SEBF vs FVDF cluster runs",
           ("repro.cluster",),
           "bench_fig7a_jct_stages.py"),
        _E("fig7b+table7", "Shuffle traffic with/without Swallow",
           "HiBench large/huge/gigantic suites",
           ("repro.cluster.hibench",),
           "bench_fig7b_table7_traffic.py"),
        _E("table8", "GC time per stage with/without compression",
           "HiBench suites through the GC model",
           ("repro.cluster.gc_model",),
           "bench_table8_gc.py"),
        _E("fig7c", "CCT vs time-slice length",
           "coflow trace at 100 Mbps, δ ∈ {10 ms, 100 ms, 1 s}",
           ("repro.core.simulator",),
           "bench_fig7c_time_slice.py"),
        _E("ablation-aging", "Starvation-freedom aging policies",
           "large coflow + small-coflow stream",
           ("repro.core.fvdf",),
           "bench_ablation_aging.py"),
        _E("ablation-compression", "Ordering vs compression decomposition",
           "coflow trace across bandwidths",
           ("repro.core.fvdf",),
           "bench_ablation_compression.py"),
        _E("ablation-rate-policy", "Minimal vs greedy vs MADD allocation",
           "coflow trace at 100 Mbps",
           ("repro.core.rate_allocation",),
           "bench_ablation_rate_policy.py"),
        _E("ablation-decompression", "Receiver-side decompression overhead",
           "coflow trace at 100 Mbps, three codecs",
           ("repro.core.simulator", "repro.compression.codecs"),
           "bench_ablation_decompression.py"),
        _E("ext-oversubscription", "FVDF vs SEBF on a two-tier fabric",
           "coflow trace on 4 racks × 4 hosts, uplink 1:1 → 8:1",
           ("repro.fabric.twotier",),
           "bench_ext_oversubscription.py"),
        _E("ext-failures", "Swallow under failures and stragglers",
           "HiBench large suite, healthy/flaky/hostile churn",
           ("repro.cluster.failures",),
           "bench_ext_failures.py"),
        _E("ext-bins", "CCT speedup per Short/Long x Narrow/Wide bin",
           "60 coflows at 100 Mbps, Varys-style bins",
           ("repro.traces.classify",),
           "bench_ext_bins.py"),
        _E("ext-agnostic", "Knowledge spectrum: FIFO/D-CLAS/SEBF/FVDF",
           "5 seeded coflow traces at 100 Mbps",
           ("repro.schedulers.aalo", "repro.analysis.seeds"),
           "bench_ext_agnostic.py"),
        _E("ext-deadlines", "Deadline guarantees: EDF admission control",
           "40 deadline coflows at ~1.5x load, 100 Mbps",
           ("repro.schedulers.deadline",),
           "bench_ext_deadlines.py"),
        _E("microbench", "Engine and allocation-primitive throughput",
           "2000 flows / 64 ports primitives; 200-coflow end-to-end run",
           ("repro.core",),
           "bench_engine_microbench.py"),
    ]
}


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; see `python -m repro experiments`"
        ) from None


def reproduce(only: Optional[str] = None,
              collect_only: bool = False) -> Tuple[int, Optional[Path]]:
    """Run the benches under ``benchmarks/`` with pytest, or only the bench
    of experiment ``only``, and collate their reports.  Returns pytest's
    exit code and the collated ``REPORT.md``, or None when nothing was
    collated (``collect_only``, a failed bench, no reports directory)."""
    import pytest

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    target = bench_dir / get_experiment(only).bench if only else bench_dir
    args = [str(target), "--benchmark-only", "-q"]
    if collect_only:
        args.append("--collect-only")
    rc = int(pytest.main(args))
    reports = bench_dir / "reports"
    if rc or collect_only or not reports.is_dir():
        return rc, None
    from repro.analysis.collate import collate_reports

    out = reports / "REPORT.md"
    collate_reports(reports, out)
    return rc, out
