"""Fig. 6(c) — average-FCT improvement vs number of parallel flows.

Paper: across three magnitudes of parallel-flow counts, FVDF always
outperforms SRTF, FIFO and FAIR.
"""

from repro.analysis import ExperimentSetup, render_table
from repro.runner import RunSpec, WorkloadSpec, run_specs
from repro.traces.generator import WorkloadConfig
from repro.units import mbps
from workloads import TRACE_SIZES

POLICIES = ["srtf", "fifo", "fair", "fvdf-flow"]
COUNTS = [30, 100, 300]
SETUP = ExperimentSetup(num_ports=12, bandwidth=mbps(200), slice_len=0.01)


def _batch_spec(n):
    # workloads.parallel_batch(seed=n, num_flows=n), as a picklable spec
    # regenerated inside the worker instead of shipping the trace.
    cfg = WorkloadConfig(
        num_coflows=n, num_ports=12, size_dist=TRACE_SIZES, width=1,
        arrival_rate=None,
    )
    return WorkloadSpec.generated(cfg, seed=n, flow_level=True)


def run_all():
    # The (batch size × policy) grid in one fan-out through the runner.
    specs = [
        RunSpec(policy=p, workload=_batch_spec(n), setup=SETUP, key=f"{n}/{p}")
        for n in COUNTS
        for p in POLICIES
    ]
    by_key = {out.key: out.summary for out in run_specs(specs)}
    table = {}
    for n in COUNTS:
        ours = by_key[f"{n}/fvdf-flow"].avg_fct
        table[n] = {
            base: by_key[f"{n}/{base}"].avg_fct / ours
            for base in ["srtf", "fifo", "fair"]
        }
    return table


def test_fig6c_parallel_flows(once, report):
    table = once(run_all)
    rows = [
        [n, table[n]["srtf"], table[n]["fifo"], table[n]["fair"]] for n in COUNTS
    ]
    report(
        "fig6c_parallel_flows",
        render_table(
            ["parallel flows", "speedup vs SRTF", "vs FIFO", "vs FAIR"], rows,
            title="Fig. 6(c) — avg-FCT improvement vs number of parallel flows",
        ),
    )
    # FVDF outperforms the three baselines at every magnitude.
    for n in COUNTS:
        assert table[n]["srtf"] >= 1.0, n
        assert table[n]["fifo"] > 1.0, n
        assert table[n]["fair"] > 1.0, n
