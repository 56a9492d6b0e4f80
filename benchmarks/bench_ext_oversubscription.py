"""Extension — compression gains vs fabric oversubscription.

The paper evaluates on the ideal big switch; production fabrics are
oversubscribed at the rack uplinks, making bandwidth even scarcer — the
exact regime where Eq. 3 favours compression.  This bench sweeps the
oversubscription ratio on a two-tier fabric and shows FVDF's edge over
SEBF *growing* with oversubscription, strengthening the paper's thesis on
realistic topologies.
"""

import numpy as np

from repro.analysis import render_table
from repro.core.simulator import SliceSimulator
from repro.fabric import TwoTierFabric
from repro.schedulers import make_scheduler
from repro.traces.distributions import LogNormalSizes
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import KB, MB, gbps

NUM_RACKS = 4
HOSTS_PER_RACK = 4
HOST_BW = gbps(1)
RATIOS = [1, 4, 8]  # uplink oversubscription k:1


def workload():
    cfg = WorkloadConfig(
        num_coflows=30,
        num_ports=NUM_RACKS * HOSTS_PER_RACK,
        size_dist=LogNormalSizes(median=16 * MB, sigma=1.2, lo=256 * KB, hi=256 * MB),
        width=(1, 6),
        arrival_rate=2.0,
    )
    return generate_workload(cfg, np.random.default_rng(99))


def run_one(ratio: int, policy: str, coflows):
    fabric = TwoTierFabric(
        NUM_RACKS, HOSTS_PER_RACK, HOST_BW,
        uplink_bandwidth=HOSTS_PER_RACK * HOST_BW / ratio,
    )
    sim = SliceSimulator(fabric, make_scheduler(policy), slice_len=0.01)
    sim.submit_many(coflows)
    return sim.run()


def run_all():
    coflows = workload()
    table = {}
    for ratio in RATIOS:
        sebf = run_one(ratio, "sebf", coflows)
        fvdf = run_one(ratio, "fvdf", coflows)
        table[ratio] = {
            "sebf_cct": sebf.avg_cct,
            "fvdf_cct": fvdf.avg_cct,
            "speedup": sebf.avg_cct / fvdf.avg_cct,
            "traffic_reduction": fvdf.traffic_reduction,
        }
    return table


def test_ext_oversubscription(once, report):
    table = once(run_all)
    rows = [
        [f"{k}:1", d["sebf_cct"], d["fvdf_cct"], d["speedup"],
         f"{d['traffic_reduction'] * 100:.1f}%"]
        for k, d in table.items()
    ]
    report(
        "ext_oversubscription",
        render_table(
            ["oversubscription", "SEBF CCT (s)", "FVDF CCT (s)",
             "speedup", "traffic saved"],
            rows,
            title="Extension — FVDF vs SEBF on an oversubscribed two-tier fabric",
        ),
    )
    # Oversubscription hurts everyone...
    assert table[8]["sebf_cct"] > table[1]["sebf_cct"]
    # ...but compression recovers more of it: FVDF's edge grows with k.
    assert table[8]["speedup"] > table[1]["speedup"]
    assert table[8]["speedup"] > 1.1
    # More traffic compresses as effective bandwidth shrinks.
    assert table[8]["traffic_reduction"] >= table[1]["traffic_reduction"] - 0.02