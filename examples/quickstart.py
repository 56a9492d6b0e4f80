#!/usr/bin/env python
"""Quickstart: schedule a handful of coflows with FVDF vs the baselines.

Builds a 8-port gigabit big-switch fabric, generates a small Spark-like
shuffle workload, and runs it under FIFO, FAIR, SEBF (Varys) and Swallow's
FVDF — printing average FCT/CCT and the traffic saved by compression.

Run:  python examples/quickstart.py
"""

from repro.analysis import ExperimentSetup, run_many, speedups_over, summary_table
from repro.scenarios import synthetic_workload
from repro.units import bytes_to_human, gbps


def main() -> None:
    workload = synthetic_workload(40, num_ports=8, max_width=6, seed=42)
    total = sum(c.size for c in workload)
    print(f"workload: {len(workload)} coflows, {bytes_to_human(total)} total\n")

    setup = ExperimentSetup(num_ports=8, bandwidth=gbps(1) / 8, slice_len=0.01)
    results = run_many(["fifo", "fair", "sebf", "fvdf"], workload, setup)
    print(summary_table(results))

    print("\nCCT speedup of FVDF over each baseline:")
    for name, sp in sorted(speedups_over(results, ours="fvdf").items()):
        print(f"  {name:6s} {sp:.2f}x")

    from repro.analysis import render_timeline

    print("\n" + render_timeline(
        results["fvdf"].coflow_results[:12], width=50,
        title="first 12 coflows under FVDF (Gantt)",
    ))


if __name__ == "__main__":
    main()
