#!/usr/bin/env python
"""Replay a Facebook-format coflow trace under every coflow scheduler.

Synthesises a trace with the public coflow-benchmark format's skew (most
coflows narrow, a few spanning half the cluster), round-trips it through
the on-disk format, then replays it under the coflow schedulers of
Fig. 6(e)/Table VI.  Point ``--trace`` at a real
``FB2010-1Hr-150-0.txt`` file to replay the original instead.

Run:  python examples/facebook_trace_replay.py [--trace PATH]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import ExperimentSetup, run_many, speedups_over, summary_table
from repro.traces import (
    read_facebook_trace,
    synthesize_facebook_like,
    write_facebook_trace,
)
from repro.units import bytes_to_human, gbps

POLICIES = ["coflow-fifo", "pff", "scf", "ncf", "sebf", "fvdf"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", type=Path, help="path to a coflow-benchmark trace")
    ap.add_argument("--coflows", type=int, default=40)
    ap.add_argument("--ports", type=int, default=40)
    args = ap.parse_args()

    if args.trace:
        trace = read_facebook_trace(args.trace)
        print(f"loaded {args.trace}")
    else:
        rng = np.random.default_rng(7)
        trace = synthesize_facebook_like(
            rng, num_coflows=args.coflows, num_ports=args.ports,
            arrival_rate=0.5, mean_reducer_mb=8.0,
        )
        # Demonstrate the on-disk format round-trip.
        with tempfile.NamedTemporaryFile("w+", suffix=".txt", delete=False) as fh:
            write_facebook_trace(trace, fh.name)
            trace = read_facebook_trace(fh.name)
        print(f"synthesised FB-like trace (round-tripped through {fh.name})")

    print(
        f"  {len(trace.coflows)} coflows, {trace.num_flows} flows, "
        f"{bytes_to_human(trace.total_bytes)} on {trace.num_ports} ports\n"
    )

    setup = ExperimentSetup(
        num_ports=trace.num_ports, bandwidth=gbps(1) / 8, slice_len=0.01
    )
    results = run_many(POLICIES, trace.coflows, setup)
    print(summary_table(results))
    print("\nCCT speedup of FVDF:")
    for name, sp in sorted(speedups_over(results, ours="fvdf").items()):
        print(f"  over {name:12s} {sp:.2f}x")


if __name__ == "__main__":
    main()
