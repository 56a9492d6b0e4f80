"""Table VIII — garbage-collection time per stage, with/without compression.

Paper: GC time in both map and reduce stages drops when coflow compression
is on (the "-c" rows), because compressed shuffle buffers allocate less;
the gap widens with workload scale (gigantic reduce: 1.6 min vs 19 min at
the 100% checkpoint).
"""

from repro.analysis import render_table
from repro.cluster import run_hibench
from repro.units import seconds_to_human

SCALES = ["large", "huge", "gigantic"]


def run_all():
    table = {}
    for scale in SCALES:
        comp = run_hibench("fvdf", scale, suite_seed=41).gc_summary()
        plain = run_hibench("sebf", scale, suite_seed=41).gc_summary()
        table[scale] = {"with": comp, "without": plain}
    return table


def test_table8_gc(once, report):
    table = once(run_all)
    rows = []
    for scale in SCALES:
        d = table[scale]
        rows.append([
            f"{scale}-c",
            seconds_to_human(d["with"]["map"]),
            seconds_to_human(d["with"]["reduce"]),
        ])
        rows.append([
            scale,
            seconds_to_human(d["without"]["map"]),
            seconds_to_human(d["without"]["reduce"]),
        ])
    report(
        "table8_gc",
        render_table(
            ["workload", "GC map", "GC reduce"], rows,
            title="Table VIII — garbage collection time (map/reduce)",
        ),
    )
    for scale in SCALES:
        d = table[scale]
        # Compression never increases GC time in either stage...
        assert d["with"]["map"] <= d["without"]["map"] * 1.001, scale
        assert d["with"]["reduce"] <= d["without"]["reduce"] * 1.001, scale
    # ...and the absolute reduce-side saving grows with workload scale
    # (the paper's gigantic rows show the dramatic gap).
    savings = [
        table[s]["without"]["reduce"] - table[s]["with"]["reduce"] for s in SCALES
    ]
    assert savings[2] > savings[1] > savings[0]
    # GC grows with scale at all (sanity of the model).
    assert (
        table["gigantic"]["without"]["reduce"] > table["large"]["without"]["reduce"]
    )
