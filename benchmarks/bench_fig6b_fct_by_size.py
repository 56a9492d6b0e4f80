"""Fig. 6(b) — average-FCT improvement per flow-size class.

Paper: FVDF improves every size class, most prominently vs FIFO/FAIR, and
its edge over SRTF is larger for big flows than for small ones (both serve
the smallest first; compression only pays off on volume).
"""

from repro.analysis import ExperimentSetup, render_table, run_many
from repro.core.metrics import avg_fct
from repro.units import MB, mbps
from workloads import flow_trace

POLICIES = ["srtf", "fifo", "fair", "fvdf-flow"]
SETUP = ExperimentSetup(num_ports=12, bandwidth=mbps(200), slice_len=0.01)
#: size-class boundaries: small < 4 MB <= medium < 32 MB <= large
EDGES = [4 * MB, 32 * MB]
LABELS = ["small", "medium", "large"]


def classify(size: float) -> str:
    for label, edge in zip(LABELS, EDGES):
        if size < edge:
            return label
    return LABELS[-1]


def run_all():
    workload = flow_trace(seed=6)
    results = run_many(POLICIES, workload, SETUP)
    table = {}
    for label in LABELS:
        fct = {
            name: avg_fct([f for f in res.flow_results if classify(f.size) == label])
            for name, res in results.items()
        }
        table[label] = {
            base: fct[base] / fct["fvdf-flow"] for base in ["srtf", "fifo", "fair"]
        }
    return table


def test_fig6b_fct_by_size(once, report):
    table = once(run_all)
    rows = [
        [label, table[label]["srtf"], table[label]["fifo"], table[label]["fair"]]
        for label in LABELS
    ]
    report(
        "fig6b_fct_by_size",
        render_table(
            ["size class", "speedup vs SRTF", "vs FIFO", "vs FAIR"], rows,
            title="Fig. 6(b) — avg-FCT improvement of FVDF per flow size",
        ),
    )
    # FVDF improves over FIFO in every class, and over FAIR on the classes
    # that carry the bytes.  (On the smallest class FAIR can win in our
    # traces: starvation-freedom aging lets old large flows preempt fresh
    # small ones — see EXPERIMENTS.md.)
    for label in LABELS:
        assert table[label]["fifo"] > 1.0, label
    for label in ["medium", "large"]:
        assert table[label]["fair"] > 1.0, label
    # Improvement over SRTF is larger on large flows than on small ones
    # (small flows: both schedule smallest-first; large flows: compression).
    assert table["large"]["srtf"] > table["small"]["srtf"]
    assert table["large"]["srtf"] > 1.5
