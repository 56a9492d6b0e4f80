"""Fig. 6(d) — CDF of flow completion time per algorithm.

Paper: SRTF leads FVDF slightly at the small-flow head (FVDF pays
time-slice waste), FVDF overtakes as flows grow thanks to compression, and
improves the completion time of *all* flows by up to 1.33x — a metric SRTF
does not improve at all over FIFO/FAIR.
"""

import numpy as np

from repro.analysis import ExperimentSetup, render_table
from repro.core.metrics import cdf_at
from repro.runner import RunSpec, WorkloadSpec, run_specs
from repro.units import mbps
from workloads import flow_trace

POLICIES = ["srtf", "fifo", "fair", "fvdf-flow"]
SETUP = ExperimentSetup(num_ports=12, bandwidth=mbps(200), slice_len=0.01)


def run_all():
    # Per-flow FCT arrays ride back in the summaries (arrays=True), so the
    # CDF is computed without shipping full SimulationResults.
    workload = WorkloadSpec.inline(flow_trace(seed=6))
    specs = [
        RunSpec(policy=p, workload=workload, setup=SETUP, key=p, arrays=True)
        for p in POLICIES
    ]
    fcts = {out.key: np.asarray(out.summary.fct) for out in run_specs(specs)}
    points = np.quantile(fcts["fvdf-flow"], [0.25, 0.5, 0.75, 0.9, 1.0])
    cdf = {name: cdf_at(v, points) for name, v in fcts.items()}
    all_done = {name: float(v.max()) for name, v in fcts.items()}
    return points, cdf, all_done, fcts


def test_fig6d_fct_cdf(once, report, figure):
    points, cdf, all_done, fcts = once(run_all)
    from repro.analysis import cdf_chart

    figure("fig6d_fct_cdf", cdf_chart(
        {k: list(v) for k, v in fcts.items()},
        title="Fig. 6(d) — CDF of FCT", xlabel="FCT (s)",
    ))
    rows = [
        [f"{p:.2f}s"] + [float(cdf[name][i]) for name in POLICIES]
        for i, p in enumerate(points)
    ]
    text = render_table(
        ["FCT <="] + POLICIES, rows,
        title="Fig. 6(d) — CDF of FCT per algorithm",
    ) + "\n\n" + render_table(
        ["policy", "completion time of all flows (max FCT, s)"],
        [[name, all_done[name]] for name in POLICIES],
    )
    report("fig6d_fct_cdf", text)
    # FVDF improves the completion time of ALL flows over FIFO and FAIR...
    assert all_done["fvdf-flow"] < all_done["fifo"]
    assert all_done["fvdf-flow"] < all_done["fair"]
    # ...and over SRTF (which matches FIFO/FAIR on this metric — the
    # paper's point that pure reordering cannot shrink total work).
    assert all_done["fvdf-flow"] < all_done["srtf"]
    # The CDF tail: FVDF is at least as far along as SRTF at the 90th pct.
    assert cdf["fvdf-flow"][3] >= cdf["srtf"][3] - 0.05
