"""Fig. 2 — CPU utilisation: idle periods grow as bandwidth shrinks.

Paper observations: at 10 Gbps more than 30.77% of CPU time is idle; at
100 Mbps the wasted share grows past 69.23%, because jobs shift from
CPU-bound to I/O-bound and cores wait on the network.
"""

from repro.analysis import render_table
from repro.cluster import run_hibench
from repro.units import gbps, mbps

BANDWIDTHS = {"10 Gbps": gbps(10), "100 Mbps": mbps(100)}


def run_once(bandwidth: float):
    # No compression: Fig. 2 motivates it, so it is not yet in play.
    res = run_hibench(
        "sebf", suite_seed=3, num_jobs=8,
        num_nodes=8, bandwidth=bandwidth, sample_cpu=True,
    )
    rec = res.cpu_recorder
    return {
        "idle_fraction": rec.idle_time_fraction(threshold=0.05),
        "mean_utilization": rec.mean_utilization(),
        "samples": len(rec),
        "idle_periods_node0": len(rec.idle_periods(0)),
    }


def run_all():
    return {label: run_once(bw) for label, bw in BANDWIDTHS.items()}


def test_fig2_cpu_utilization(once, report):
    out = once(run_all)
    rows = [
        [label, d["idle_fraction"], d["mean_utilization"], d["idle_periods_node0"]]
        for label, d in out.items()
    ]
    report(
        "fig2_cpu_utilization",
        render_table(
            ["bandwidth", "idle time fraction", "mean utilization",
             "idle periods (node 0)"],
            rows,
            title="Fig. 2 — CPU idle periods vs network bandwidth",
        ),
    )
    # Idle CPU time grows markedly as the network thins (the paper's point).
    assert out["100 Mbps"]["idle_fraction"] > out["10 Gbps"]["idle_fraction"]
    # Substantial idle share exists even at 10 Gbps (paper: >30%).
    assert out["10 Gbps"]["idle_fraction"] > 0.2
    # At 100 Mbps most CPU time is idle (paper: >69%).
    assert out["100 Mbps"]["idle_fraction"] > 0.5
