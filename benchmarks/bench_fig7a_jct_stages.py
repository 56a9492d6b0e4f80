"""Fig. 7(a) — per-stage JCT improvement on the cluster ("real deployment").

Paper: Swallow reduces the shuffle-stage completion time by up to 1.90x
and the result stage by up to 2.12x; the overall JCT improvement averages
1.66x.
"""

import numpy as np

from repro.analysis import render_table
from repro.cluster import ClusterConfig, ClusterSimulator, hibench_suite
from repro.schedulers import make_scheduler
from repro.units import gbps

NUM_JOBS = 12


def run_once(scheduler: str):
    cfg = ClusterConfig(num_nodes=16, bandwidth=gbps(1), slice_len=0.01)
    sim = ClusterSimulator(cfg, make_scheduler(scheduler))
    sim.submit_jobs(hibench_suite("large", np.random.default_rng(21), num_jobs=NUM_JOBS))
    return sim.run()


def run_all():
    return {"without": run_once("sebf"), "with": run_once("fvdf")}


def test_fig7a_jct_stages(once, report):
    out = once(run_all)
    base, swallow = out["without"], out["with"]
    sb, ss = base.stage_means(), swallow.stage_means()
    rows = [
        [st, sb[st], ss[st], sb[st] / ss[st] if ss[st] > 0 else float("nan")]
        for st in ("map", "shuffle", "reduce", "result")
    ]
    rows.append(["JCT", base.avg_jct, swallow.avg_jct,
                 base.avg_jct / swallow.avg_jct])
    report(
        "fig7a_jct_stages",
        render_table(
            ["stage", "without Swallow (s)", "with Swallow (s)", "speedup"],
            rows,
            title="Fig. 7(a) — per-stage improvements (large workload)",
        ),
    )
    # Shuffle and result stages improve markedly (paper: 1.90x / 2.12x).
    assert sb["shuffle"] / ss["shuffle"] > 1.3
    assert sb["result"] / ss["result"] > 1.3
    # Overall JCT improves (paper: 1.66x on average).
    assert base.avg_jct / swallow.avg_jct > 1.1
    # Map/reduce compute stages are not hurt by compression.
    assert ss["map"] <= sb["map"] * 1.05
    assert ss["reduce"] <= sb["reduce"] * 1.10
