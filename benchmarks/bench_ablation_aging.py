"""Ablation — starvation-freedom aging policies (Pseudocode 3 variants).

Scenario: one large coflow plus a continuous stream of small coflows on
the same port.  "paper" (unbounded ×1.2 upgrades) serves the large coflow
fastest but punishes the stream; "starved" (age only unserved coflows, our
default) bounds the large coflow's wait at a much smaller cost to the
stream; logbase=1 (aging off) starves the large coflow outright.  "reset"
(age everyone, clear the head's class at each event) is in the table
because it re-starves the large coflow just as aging off does: both leave
it a 41 s CCT.
"""

from repro.analysis import ExperimentSetup, render_table, run_policy
from repro.core.coflow import Coflow
from repro.core.flow import Flow
from repro.core.fvdf import FVDFConfig, FVDFScheduler

VARIANTS = {
    "off (logbase=1)": FVDFConfig(compress=False, logbase=1.0),
    "paper": FVDFConfig(compress=False, logbase=1.2, aging="paper"),
    "starved (default)": FVDFConfig(compress=False, logbase=1.2, aging="starved"),
    "reset": FVDFConfig(compress=False, logbase=1.2, aging="reset"),
}
SETUP = ExperimentSetup(num_ports=4, bandwidth=1.0, slice_len=0.01)
STREAM_LEN = 40


def scenario():
    big = Coflow([Flow(0, 0, 5.0)], arrival=0.0, label="big")
    small = [
        Coflow([Flow(0, 0, 0.9)], arrival=float(k), label=f"s{k}")
        for k in range(STREAM_LEN)
    ]
    return [big] + small


def run_all():
    table = {}
    for label, cfg in VARIANTS.items():
        res = run_policy(FVDFScheduler(cfg, name=label), scenario(), SETUP)
        cct = {c.label: c.cct for c in res.coflow_results}
        small_ccts = [v for k, v in cct.items() if k != "big"]
        table[label] = {
            "big": cct["big"],
            "small_avg": sum(small_ccts) / len(small_ccts),
        }
    return table


def test_ablation_aging(once, report):
    table = once(run_all)
    rows = [[label, d["big"], d["small_avg"]] for label, d in table.items()]
    report(
        "ablation_aging",
        render_table(
            ["aging policy", "large-coflow CCT (s)", "avg small CCT (s)"],
            rows,
            title="Ablation — starvation freedom vs small-coflow latency",
        ),
    )
    stream_end = float(STREAM_LEN)
    # Aging off: the large coflow is starved past the end of the stream.
    assert table["off (logbase=1)"]["big"] >= stream_end
    # "paper" and "starved" both bound the wait well before the stream ends.
    assert table["paper"]["big"] < 0.5 * stream_end
    assert table["starved (default)"]["big"] < 0.5 * stream_end
    # "starved" is gentler on the small stream than "paper".
    assert table["starved (default)"]["small_avg"] <= table["paper"]["small_avg"]
    # "reset" re-starves (documented failure mode).
    assert table["reset"]["big"] >= stream_end