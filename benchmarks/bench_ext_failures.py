"""Extension — do Swallow's gains survive failures and stragglers?

The paper's testbed was healthy; production clusters are not.  This bench
re-runs the Fig. 7(a) comparison (SEBF vs FVDF on the large HiBench suite)
under increasing task failure/straggler rates.  Measured shape: traffic
savings are untouched by churn (~50% at every level) and FVDF never loses,
but the *JCT* speedup dilutes (1.14x -> ~1.05x) because retries stretch
the compute stages that compression cannot help — a deployment caveat the
paper's healthy testbed could not surface.
"""

from repro.analysis import render_table
from repro.cluster import FailureModel, run_hibench

CHURN = {
    "healthy": FailureModel(),
    "flaky": FailureModel(task_failure_prob=0.15, max_retries=10,
                          straggler_prob=0.1, straggler_slowdown=3.0),
    "hostile": FailureModel(task_failure_prob=0.3, max_retries=10,
                            straggler_prob=0.3, straggler_slowdown=4.0,
                            speculative=True),
}


def run_all():
    table = {}
    for label, fm in CHURN.items():
        base = run_hibench("sebf", suite_seed=17, failures=fm, seed=17)
        swallow = run_hibench("fvdf", suite_seed=17, failures=fm, seed=17)
        table[label] = {
            "sebf_jct": base.avg_jct,
            "fvdf_jct": swallow.avg_jct,
            "speedup": base.avg_jct / swallow.avg_jct,
            "failed": base.failed_jobs + swallow.failed_jobs,
            "reduction": swallow.traffic_reduction,
        }
    return table


def test_ext_failures(once, report):
    table = once(run_all)
    rows = [
        [label, d["sebf_jct"], d["fvdf_jct"], d["speedup"],
         f"{d['reduction'] * 100:.1f}%", d["failed"]]
        for label, d in table.items()
    ]
    report(
        "ext_failures",
        render_table(
            ["cluster health", "SEBF JCT (s)", "FVDF JCT (s)", "speedup",
             "traffic saved", "failed jobs"],
            rows,
            title="Extension — Swallow under failures and stragglers",
        ),
    )
    # Churn hurts absolute JCT...
    assert table["flaky"]["sebf_jct"] > table["healthy"]["sebf_jct"]
    # ...Swallow never loses and traffic savings are churn-independent...
    for label, d in table.items():
        assert d["speedup"] > 1.0, label
        assert d["reduction"] > 0.40, label
    # ...but the JCT speedup dilutes as compute (not network) dominates.
    assert table["hostile"]["speedup"] < table["healthy"]["speedup"]
