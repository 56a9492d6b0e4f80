"""Table VI — absolute time consumption of the coflow schedulers.

Paper (at their trace/testbed): FVDF 79,913 ms avg CCT < SEBF 111,809 <
SCF/NCF/LCF 136,629 < PFF/FAIR 195,064 < PFP 225,296; job duration ordered
the same way.  Absolute numbers depend on the trace; the *ordering* is the
reproducible claim.
"""

import numpy as np

from repro.analysis import ExperimentSetup, render_table
from repro.runner import RunSpec, WorkloadSpec, run_specs
from repro.units import mbps
from workloads import coflow_trace

GROUPS = [
    ("fvdf", ["fvdf"]),
    ("sebf", ["sebf"]),
    ("scf/ncf/lcf", ["scf", "ncf", "lcf"]),
    ("pff/fair", ["pff"]),
    ("pfp", ["pfp"]),
]
SETUP = ExperimentSetup(num_ports=16, bandwidth=mbps(100), slice_len=0.01)

PAPER_MS = {
    "fvdf": 79_913, "sebf": 111_809, "scf/ncf/lcf": 136_629,
    "pff/fair": 195_064, "pfp": 225_296,
}


def run_all():
    from repro.core.bounds import avg_cct_lower_bound
    from repro.fabric.bigswitch import BigSwitch

    coflows = coflow_trace(seed=14)
    workload = WorkloadSpec.inline(coflows)
    policies = [p for _, members in GROUPS for p in members]
    specs = [
        RunSpec(policy=p, workload=workload, setup=SETUP, key=p)
        for p in policies
    ]
    results = {out.key: out.summary for out in run_specs(specs)}
    bound = avg_cct_lower_bound(
        coflows, BigSwitch(SETUP.num_ports, SETUP.bandwidth)
    )
    table = {}
    for label, members in GROUPS:
        table[label] = {
            "avg_cct": float(np.mean([results[m].avg_cct for m in members])),
            "duration": float(np.mean([results[m].makespan for m in members])),
            "gap": float(np.mean([results[m].avg_cct for m in members])) / bound,
        }
    return table


def test_table6_cct(once, report):
    table = once(run_all)
    rows = [
        [label, d["avg_cct"] * 1e3, PAPER_MS[label], d["duration"] * 1e3,
         f"{d['gap']:.2f}x"]
        for label, d in table.items()
    ]
    report(
        "table6_cct",
        render_table(
            ["algorithm", "avg CCT (ms, ours)", "avg CCT (ms, paper)",
             "job duration (ms, ours)", "gap to isolation bound"],
            rows,
            title="Table VI — time consumption of different algorithms",
        ),
    )
    # No heuristic beats the provable lower bound.
    for label, d in table.items():
        assert d["gap"] >= 1.0 - 1e-9, label
    # The paper's ranking: FVDF best, then SEBF, then the simple coflow
    # orders, then coflow-agnostic fairness/PFP.
    assert table["fvdf"]["avg_cct"] < table["sebf"]["avg_cct"]
    assert table["sebf"]["avg_cct"] < table["pff/fair"]["avg_cct"]
    assert table["sebf"]["avg_cct"] <= table["scf/ncf/lcf"]["avg_cct"] * 1.05
    assert table["fvdf"]["avg_cct"] < table["pfp"]["avg_cct"]
