"""Extension — the knowledge spectrum, multi-seed robust.

How much does each level of information buy?  Across five seeded traces:

* **coflow-FIFO** — no information at all;
* **D-CLAS (Aalo)** — learns from bytes sent, no prior sizes;
* **SEBF (Varys)** — clairvoyant sizes;
* **Sincronia (BSSI)** — clairvoyant sizes, near-optimal ordering;
* **FVDF (Swallow)** — clairvoyant sizes *plus* CPU/compression awareness.

Expected ordering of mean CCT: FVDF <= {Sincronia, SEBF} <= D-CLAS <~
FIFO, with FVDF winning on (almost) every seed — ordering alone, however
good, cannot shrink the bytes.
"""

import numpy as np

from repro.analysis import ExperimentSetup, render_table, run_seeds
from repro.traces.distributions import LogNormalSizes
from repro.traces.generator import WorkloadConfig, generate_workload
from repro.units import KB, MB, mbps

POLICIES = ["coflow-fifo", "dclas", "sebf", "sincronia", "fvdf"]
SETUP = ExperimentSetup(num_ports=16, bandwidth=mbps(100), slice_len=0.01)
SEEDS = range(5)


def factory(seed):
    cfg = WorkloadConfig(
        num_coflows=30,
        num_ports=16,
        size_dist=LogNormalSizes(median=8 * MB, sigma=1.3, lo=64 * KB, hi=256 * MB),
        width=(1, 8),
        arrival_rate=2.0,
    )
    return generate_workload(cfg, np.random.default_rng(seed))


def run_all():
    return run_seeds(POLICIES, factory, SETUP, seeds=SEEDS, metric="avg_cct")


def test_ext_agnostic(once, report):
    stats = once(run_all)
    rows = [
        [name, stats.mean(name), stats.std(name),
         f"{stats.win_rate('fvdf', name) * 100:.0f}%" if name != "fvdf" else "-"]
        for name in POLICIES
    ]
    report(
        "ext_agnostic",
        render_table(
            ["policy", "mean CCT (s)", "std (s)", "FVDF win rate"],
            rows,
            title=f"Extension — knowledge spectrum over {len(list(SEEDS))} seeds",
        ),
    )
    # More information -> better mean CCT, at every rung of the ladder.
    assert stats.mean("fvdf") < stats.mean("sebf")
    assert stats.mean("fvdf") < stats.mean("sincronia")
    assert stats.mean("sebf") < stats.mean("coflow-fifo")
    assert stats.mean("sincronia") < stats.mean("coflow-fifo")
    assert stats.mean("dclas") <= stats.mean("coflow-fifo") * 1.1
    # FVDF wins on every seed against the agnostic policies.
    assert stats.win_rate("fvdf", "coflow-fifo") == 1.0
    assert stats.win_rate("fvdf", "dclas") == 1.0
    assert stats.win_rate("fvdf", "sebf") >= 0.8