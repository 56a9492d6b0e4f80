"""Fig. 6(a) — average-FCT improvement under trace percentiles.

Paper: over the full trace FVDF accelerates average FCT by up to 1.31x /
4.22x / 4.33x over SRTF / FIFO / FAIR; filtering out the smallest flows
("97%"/"95%" settings) shrinks the improvement over FIFO and FAIR because
those policies favour large flows.
"""

import pytest

from repro.analysis import ExperimentSetup, render_table, run_many
from repro.core.metrics import avg_fct, filter_flows_by_size_percentile
from repro.units import mbps
from workloads import flow_trace

POLICIES = ["srtf", "fifo", "fair", "fvdf-flow"]
PERCENTILES = [1.0, 0.97, 0.95]
SETUP = ExperimentSetup(num_ports=12, bandwidth=mbps(200), slice_len=0.01)


def run_all():
    workload = flow_trace(seed=6)
    results = run_many(POLICIES, workload, SETUP)
    table = {}
    for keep in PERCENTILES:
        fct = {
            name: avg_fct(filter_flows_by_size_percentile(res.flow_results, keep))
            for name, res in results.items()
        }
        table[keep] = {
            base: fct[base] / fct["fvdf-flow"] for base in ["srtf", "fifo", "fair"]
        }
    return table


def test_fig6a_fct_percentiles(once, report):
    table = once(run_all)
    rows = [
        [f"{int(keep * 100)}% flows",
         table[keep]["srtf"], table[keep]["fifo"], table[keep]["fair"]]
        for keep in PERCENTILES
    ]
    report(
        "fig6a_fct_percentiles",
        render_table(
            ["trace", "speedup vs SRTF", "vs FIFO", "vs FAIR"], rows,
            title="Fig. 6(a) — avg-FCT improvement of FVDF per trace percentile",
        ),
    )
    full = table[1.0]
    # FVDF beats FIFO and FAIR clearly on the full trace.
    assert full["fifo"] > 1.5
    assert full["fair"] > 1.5
    # ...and is at worst comparable to SRTF while also compressing.
    assert full["srtf"] > 0.95
    # Eliminating small flows shrinks the improvement over FIFO (which
    # penalises small flows the hardest).  For max-min FAIR the effect is
    # weak in our traces — assert it stays within a few percent.
    assert table[0.95]["fifo"] < full["fifo"]
    assert table[0.95]["fair"] == pytest.approx(full["fair"], rel=0.08)
