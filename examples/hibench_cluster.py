#!/usr/bin/env python
"""HiBench on a simulated cluster, with and without Swallow (paper §VI-B).

Runs the "large" HiBench suite twice over a 16-node gigabit cluster:
once under SEBF without compression ("without Swallow") and once under
FVDF with LZ4 compression ("with Swallow"), then reports the per-stage
durations (Fig. 7a), shuffle traffic (Table VII / Fig. 7b) and GC time
(Table VIII).

Run:  python examples/hibench_cluster.py [--scale large|huge]
"""

import argparse

from repro.analysis import render_table
from repro.cluster import run_hibench
from repro.units import bytes_to_human, seconds_to_human


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", default="large", choices=["large", "huge"])
    ap.add_argument("--jobs", type=int, default=12)
    args = ap.parse_args()

    base = run_hibench("sebf", args.scale, suite_seed=1, num_jobs=args.jobs)
    swallow = run_hibench("fvdf", args.scale, suite_seed=1, num_jobs=args.jobs)

    stages = ["map", "shuffle", "reduce", "result"]
    sb, ss = base.stage_means(), swallow.stage_means()
    rows = [
        [st, seconds_to_human(sb[st]), seconds_to_human(ss[st]),
         f"{sb[st] / ss[st]:.2f}x" if ss[st] > 0 else "-"]
        for st in stages
    ]
    rows.append([
        "JCT", seconds_to_human(base.avg_jct), seconds_to_human(swallow.avg_jct),
        f"{base.avg_jct / swallow.avg_jct:.2f}x",
    ])
    print(render_table(
        ["stage", "without Swallow", "with Swallow", "speedup"], rows,
        title=f"Fig. 7(a) — {args.scale} workload, per-stage improvements",
    ))

    print()
    print(render_table(
        ["run", "shuffle traffic", "reduction"],
        [
            ["without Swallow", bytes_to_human(base.shuffle_bytes_sent), "-"],
            ["with Swallow", bytes_to_human(swallow.shuffle_bytes_sent),
             f"{swallow.traffic_reduction * 100:.2f}%"],
        ],
        title="Table VII — data traffic",
    ))

    print()
    gb, gs = base.gc_summary(), swallow.gc_summary()
    print(render_table(
        ["stage", "GC without", "GC with (-c)"],
        [
            ["map", seconds_to_human(gb["map"]), seconds_to_human(gs["map"])],
            ["reduce", seconds_to_human(gb["reduce"]), seconds_to_human(gs["reduce"])],
        ],
        title="Table VIII — garbage collection time",
    ))


if __name__ == "__main__":
    main()
