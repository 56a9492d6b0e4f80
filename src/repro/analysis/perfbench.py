"""Hot-path scaling benchmark and the ``BENCH_hotpath.json`` trajectory.

The decision-point hot path (view building + FVDF's Γ ranking + rate
allocation) is the O(decision points × active flows) term that dominates
trace-scale runs.  This module times it on a fixed scaling grid
(flows × coflows × ports) and records the results in a machine-readable
trajectory file at the repo root, so every future PR can re-run the grid
and append its own entry — regressions show up as a slower entry, wins as
a faster one.

Two timings anchor each entry:

* **after** — the current vectorized engine (:class:`~repro.core.fvdf.
  FVDFScheduler` on the incremental-view engine);
* **before** — the pinned pre-vectorization reference
  (:class:`~repro.core.reference.ReferenceFVDFScheduler` with
  ``force_regroup=True``), re-measured on the same machine and workload so
  the speedup ratio is apples-to-apples regardless of host speed.

``python -m repro bench`` and ``benchmarks/bench_hotpath_scale.py`` are
thin wrappers around :func:`bench_entry` / :func:`append_entry`.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis.harness import ExperimentSetup
from repro.core.scheduler import Scheduler
from repro.units import MB, mbps

#: Schema tag stored in the JSON file (bump on breaking layout changes).
SCHEMA = "repro-bench-hotpath-v1"

#: The case whose before/after ratio is the tracked speedup figure.
SPEEDUP_CASE = "large"

#: Minimum acceptable vectorized-vs-reference speedup on SPEEDUP_CASE.
MIN_SPEEDUP = 3.0


@dataclass(frozen=True)
class BenchCase:
    """One point of the scaling grid."""

    name: str
    num_coflows: int
    num_ports: int
    max_width: int
    arrival_rate: float
    bandwidth: float = mbps(200)
    slice_len: float = 0.01
    seed: int = 11

    def workload(self):
        from repro.traces.distributions import LogNormalSizes
        from repro.traces.generator import WorkloadConfig, generate_workload

        cfg = WorkloadConfig(
            num_coflows=self.num_coflows,
            num_ports=self.num_ports,
            size_dist=LogNormalSizes(
                median=4 * MB, sigma=1.0, lo=256 * 1024, hi=64 * MB
            ),
            width=(1, self.max_width),
            arrival_rate=self.arrival_rate,
        )
        return generate_workload(cfg, np.random.default_rng(self.seed))

    def setup(self) -> ExperimentSetup:
        return ExperimentSetup(
            num_ports=self.num_ports,
            bandwidth=self.bandwidth,
            slice_len=self.slice_len,
        )


#: The scaling grid: active-flow count grows with coflows × width while the
#: port count (constraint groups) grows alongside, so the grid exercises
#: both the per-flow and the per-group terms of the hot path.  The large
#: case is a burst-arrival overload (all coflows arrive within ~2s of
#: simulated time) so the active-flow count stays in the thousands for
#: most of the run — the regime where the scalar reference's
#: O(active flows) per-decision cost dominates and the vectorized path's
#: near-flat per-decision cost pays off.
GRID: List[BenchCase] = [
    BenchCase("small", num_coflows=100, num_ports=32, max_width=8,
              arrival_rate=20.0),
    BenchCase("medium", num_coflows=250, num_ports=48, max_width=12,
              arrival_rate=35.0),
    BenchCase("large", num_coflows=600, num_ports=128, max_width=64,
              arrival_rate=300.0),
]


def run_case(
    case: BenchCase,
    scheduler_factory: Callable[[], Scheduler],
    repeats: int = 3,
    force_regroup: bool = False,
) -> Dict:
    """Best-of-``repeats`` wall time for one grid case.

    The workload is generated once and replayed; each repeat builds a
    fresh simulator (schedulers are stateful across a run).  Returns the
    per-run record stored in the JSON entry.
    """
    workload = case.workload()
    setup = case.setup()
    best = None
    decisions = 0
    peak = 0
    for _ in range(max(1, repeats)):
        scheduler = scheduler_factory()
        sim = setup.build_simulator(scheduler)
        sim.force_regroup = force_regroup
        peak_run = 0

        def observe(_now: float) -> None:
            nonlocal peak_run
            if sim.active_flows > peak_run:
                peak_run = sim.active_flows

        sim.on_decision(observe)
        sim.submit_many(list(workload))
        t0 = time.perf_counter()
        res = sim.run()
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
        decisions = res.decision_points
        peak = peak_run
    return {
        "name": case.name,
        "num_coflows": case.num_coflows,
        "num_ports": case.num_ports,
        "max_width": case.max_width,
        "arrival_rate": case.arrival_rate,
        "wall_s": round(best, 6),
        "decisions": decisions,
        "decisions_per_sec": round(decisions / best, 2) if best > 0 else None,
        "peak_active_flows": peak,
    }


def bench_entry(repeats: int = 3, label: str = "", grid=None) -> Dict:
    """Run the full grid plus the reference baseline; return one entry."""
    from repro.core.reference import ReferenceFVDFScheduler
    from repro.schedulers import make_scheduler

    grid = list(grid) if grid is not None else list(GRID)
    cases = [
        run_case(case, lambda: make_scheduler("fvdf"), repeats=repeats)
        for case in grid
    ]
    speedup = None
    anchor = next((c for c in grid if c.name == SPEEDUP_CASE), None)
    if anchor is not None:
        before = run_case(
            anchor,
            ReferenceFVDFScheduler,
            repeats=repeats,
            force_regroup=True,
        )
        after_s = next(c["wall_s"] for c in cases if c["name"] == anchor.name)
        speedup = {
            "case": anchor.name,
            "before_s": before["wall_s"],
            "after_s": after_s,
            "ratio": round(before["wall_s"] / after_s, 2),
            "reference": "ReferenceFVDFScheduler + force_regroup "
                         "(pre-vectorization scalar hot path)",
        }
    return {
        "label": label or "hotpath-grid",
        "created_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": repeats,
        "cases": cases,
        "speedup": speedup,
    }


def append_entry(path, entry: Dict, schema: str = SCHEMA) -> Dict:
    """Append ``entry`` to the trajectory file at ``path`` (creating it).

    Shared by every tracked trajectory (``BENCH_hotpath.json`` with the
    default schema, ``BENCH_sweep.json`` via
    :mod:`repro.analysis.sweepbench`); the schema tag guards against
    appending entries of one grid into the other's file.
    """
    path = Path(path)
    if path.exists():
        doc = json.loads(path.read_text())
        if doc.get("schema") != schema:
            raise ValueError(
                f"{path} has schema {doc.get('schema')!r}, expected {schema!r}"
            )
    else:
        doc = {"schema": schema, "entries": []}
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def default_bench_path() -> Path:
    """``BENCH_hotpath.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "BENCH_hotpath.json"
