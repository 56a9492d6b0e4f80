"""Table VII / Fig. 7(b) — data traffic with and without Swallow.

Paper: large 2.4 GB → 1,278.6 MB (46.73%), huge 25.7 GB → 12.9 GB
(49.81%), gigantic 2.65 TB → 1.36 TB (48.68%); 48.41% on average.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.cluster import SCALE_TRAFFIC, run_hibench
from repro.units import bytes_to_human

PAPER_REDUCTION = {"large": 0.4673, "huge": 0.4981, "gigantic": 0.4868}
SCALES = ["large", "huge", "gigantic"]


def run_all():
    table = {}
    for scale in SCALES:
        with_swallow = run_hibench("fvdf", scale, suite_seed=31)
        without = run_hibench("sebf", scale, suite_seed=31)
        table[scale] = {
            "with": with_swallow.shuffle_bytes_sent,
            "without": without.shuffle_bytes_sent,
            "reduction": 1.0 - with_swallow.shuffle_bytes_sent
            / without.shuffle_bytes_sent,
        }
    return table


def test_fig7b_table7_traffic(once, report):
    table = once(run_all)
    rows = [
        [scale, bytes_to_human(d["with"]), bytes_to_human(d["without"]),
         f"{d['reduction'] * 100:.2f}%", f"{PAPER_REDUCTION[scale] * 100:.2f}%"]
        for scale, d in table.items()
    ]
    avg = float(np.mean([d["reduction"] for d in table.values()]))
    rows.append(["average", "-", "-", f"{avg * 100:.2f}%", "48.41%"])
    report(
        "fig7b_table7_traffic",
        render_table(
            ["workload scale", "with Swallow", "without Swallow",
             "reduction (ours)", "reduction (paper)"],
            rows,
            title="Table VII / Fig. 7(b) — data traffic",
        ),
    )
    # The "without" column reproduces Table VII by construction.
    for scale in SCALES:
        assert table[scale]["without"] == pytest.approx(
            SCALE_TRAFFIC[scale], rel=1e-6
        )
    # Reductions land in the paper's band at every scale.
    for scale in SCALES:
        assert table[scale]["reduction"] == pytest.approx(
            PAPER_REDUCTION[scale], abs=0.10
        ), scale
    assert avg == pytest.approx(0.4841, abs=0.08)
