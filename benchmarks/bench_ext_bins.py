"""Extension — per-bin CCT breakdown (the Varys/Aalo presentation).

The coflow literature reports improvements per Short/Long × Narrow/Wide
bin because mice and elephants benefit differently.  Expected shape for
FVDF vs SEBF: the long bins (where compression has volume to chew on)
improve the most; no bin regresses badly.
"""

import numpy as np

from repro.analysis import ExperimentSetup, render_table, run_many
from repro.traces.classify import ClassifierConfig, bin_counts, speedup_by_bin
from repro.traces.distributions import LogNormalSizes
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import KB, MB, mbps

SETUP = ExperimentSetup(num_ports=16, bandwidth=mbps(100), slice_len=0.01)
#: thresholds scaled to our trace (median flow 8 MB)
CLS = ClassifierConfig(length_threshold=8 * MB, width_threshold=4)


def workload():
    cfg = WorkloadConfig(
        num_coflows=60,
        num_ports=16,
        size_dist=LogNormalSizes(median=8 * MB, sigma=1.3, lo=64 * KB, hi=256 * MB),
        width=(1, 10),
        arrival_rate=2.0,
    )
    return generate_workload(cfg, np.random.default_rng(23))


def run_all():
    coflows = workload()
    results = run_many(["sebf", "fvdf"], coflows, SETUP)
    counts = bin_counts(coflows, CLS)
    speedups = speedup_by_bin(
        results["sebf"].coflow_results, results["fvdf"].coflow_results, CLS
    )
    return counts, speedups


def test_ext_bins(once, report):
    counts, speedups = once(run_all)
    rows = [
        [b, counts.get(b, 0), speedups.get(b, float("nan"))]
        for b in ("SN", "LN", "SW", "LW")
    ]
    report(
        "ext_bins",
        render_table(
            ["bin", "coflows", "FVDF speedup vs SEBF"],
            rows,
            title="Extension — CCT speedup per coflow bin (S/L x N/W)",
        ),
    )
    # Every populated bin has coverage and no bin regresses badly.
    populated = [b for b, n in counts.items() if n > 0]
    assert len(populated) >= 3
    for b in populated:
        if b in speedups:
            assert speedups[b] > 0.8, b
    # The long-and-wide elephants gain the most from compression.
    if "LW" in speedups and "SN" in speedups:
        assert speedups["LW"] >= speedups["SN"] * 0.8