"""Fig. 7(c) — impact of the time-slice length on CCT.

Paper: growing the slice from O(10 ms) to O(1 s) pushes the CCT CDF right
and raises average CCT — decisions go stale and completions are observed
late.  Swallow defaults to 0.01 s.
"""

import numpy as np

from repro.analysis import ExperimentSetup, render_cdf, render_table, run_policy
from repro.core.metrics import cct_values
from repro.units import mbps
from workloads import coflow_trace

SLICES = [0.01, 0.1, 1.0]


def run_all():
    workload = coflow_trace(seed=77)
    out = {}
    for s in SLICES:
        setup = ExperimentSetup(num_ports=16, bandwidth=mbps(100), slice_len=s)
        res = run_policy("fvdf", workload, setup)
        out[s] = cct_values(res)
    return out


def test_fig7c_time_slice(once, report, figure):
    out = once(run_all)
    from repro.analysis import cdf_chart

    figure("fig7c_time_slice", cdf_chart(
        {f"slice {s * 1e3:.0f} ms": list(v) for s, v in out.items()},
        title="Fig. 7(c) — CDF of CCT vs slice length", xlabel="CCT (s)",
    ))
    avg = {s: float(v.mean()) for s, v in out.items()}
    rows = [[f"{s * 1e3:.0f} ms", avg[s], float(np.median(out[s]))] for s in SLICES]
    text = render_table(
        ["slice length", "avg CCT (s)", "median CCT (s)"], rows,
        title="Fig. 7(c) — CCT vs time-slice length",
    )
    points = np.quantile(out[SLICES[0]], [0.25, 0.5, 0.75, 1.0])
    for s in SLICES:
        text += "\n\n" + render_cdf(out[s], points=points, label=f"CDF, slice {s} s")
    report("fig7c_time_slice", text)
    # Average CCT grows monotonically with slice length.
    assert avg[0.01] <= avg[0.1] <= avg[1.0]
    # O(1 s) slices hurt substantially vs O(10 ms) (paper's contrast).
    assert avg[1.0] > avg[0.01] * 1.15
