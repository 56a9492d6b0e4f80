"""Fig. 7(a) — per-stage JCT improvement on the cluster ("real deployment").

Paper: Swallow reduces the shuffle-stage completion time by up to 1.90x
and the result stage by up to 2.12x; the overall JCT improvement averages
1.66x.
"""

from repro.analysis import render_table
from repro.cluster import run_hibench


def run_all():
    return {"without": run_hibench("sebf", suite_seed=21),
            "with": run_hibench("fvdf", suite_seed=21)}


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
