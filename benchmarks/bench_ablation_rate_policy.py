"""Ablation — FVDF rate-allocation policy: minimal (paper) vs greedy vs MADD.

The paper allocates each coflow the *minimum* rates finishing it within
Γ_C (line 29) and leaves the rest to others; "greedy" gives the head
coflow everything; "madd" is Varys' allocation.  All three must complete
the same workload; the ablation quantifies how much the choice matters.
"""

from repro.analysis import ExperimentSetup, render_table, run_many
from repro.core.fvdf import FVDFConfig, FVDFScheduler
from repro.units import mbps
from workloads import coflow_trace

POLICIES = {
    "minimal": FVDFConfig(rate_policy="minimal"),
    "greedy": FVDFConfig(rate_policy="greedy"),
    "madd": FVDFConfig(rate_policy="madd"),
}
SETUP = ExperimentSetup(num_ports=16, bandwidth=mbps(100), slice_len=0.01)


def run_all():
    workload = coflow_trace(seed=14)
    schedulers = [
        FVDFScheduler(cfg, name=f"fvdf-{label}") for label, cfg in POLICIES.items()
    ]
    return run_many(schedulers, workload, SETUP)


def test_ablation_rate_policy(once, report):
    results = once(run_all)
    rows = [
        [name, res.avg_cct, res.avg_fct, res.makespan,
         f"{res.traffic_reduction * 100:.1f}%"]
        for name, res in results.items()
    ]
    report(
        "ablation_rate_policy",
        render_table(
            ["rate policy", "avg CCT (s)", "avg FCT (s)", "makespan (s)",
             "traffic saved"],
            rows,
            title="Ablation — FVDF rate-allocation policy",
        ),
    )
    ccts = {n: r.avg_cct for n, r in results.items()}
    # All complete the full workload with compression engaged.
    for name, res in results.items():
        assert len(res.coflow_results) == 40, name
        assert res.traffic_reduction > 0.2, name
    # The three policies land in the same regime (work conservation makes
    # them differ by allocation detail, not by orders of magnitude).
    assert max(ccts.values()) / min(ccts.values()) < 1.5