"""Per-layer rows of the traced run, and what each should move.

The traced run records one span per call into each layer's public entry
point (``workloads.instrument_engine`` and each workload's
``instrument``).  Every span name maps to one *row*, the layer's self
seconds per pass; the root ``pass`` span's self time is
``unattributed_s``, so on every workload the rows sum to
``traced.wall_s``.  A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import numpy as np

from workloads import SweepGrid

#: span name -> row (self seconds per pass)
ROWS = {
    "pass": "unattributed_s",
    "arrivals.pop_block": "arrivals.pop_block_s",
    "ingest": "ingest.submit_s",
    "engine.view": "engine.view_s",
    "engine.run": "engine.advance_s",
    "decide": "fvdf.order_s",
    "fvdf.grant_cores": "fvdf.grant_cores_s",
    "fvdf.demand_fill": "fvdf.demand_fill_s",
    "fvdf.backfill": "fvdf.backfill_s",
    "results.summary": "results.summary_s",
    "trace.export": "trace.export_s",
    "engine.drain": "engine.drain_s",
    "checkpoint": "checkpoint.s",
    "plane.on_tick": "plane.on_tick_s",
    "driver": "driver.self_s",
    "pool.run_specs": "pool.parent_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "shm.attach": "shm.attach_s",
}

#: Every per-layer metric as (name, unit, better), in print order.
METRICS: List[Tuple[str, str, str]] = [
    ("traced.wall_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p95", "ms", "lower"),
    ("unattributed_s", "s", "lower"),
    ("coverage", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
    ("arrivals.pop_block_s", "s", "lower"),
    ("arrivals.flows", "count", "higher"),
    ("arrivals.us_per_flow", "us", "lower"),
    ("ingest.submit_s", "s", "lower"),
    ("ingest.flows", "count", "higher"),
    ("engine.view_s", "s", "lower"),
    ("engine.advance_s", "s", "lower"),
    ("decide.s", "s", "lower"),
    ("decide.calls", "count", "lower"),
    ("decide.ms_p50", "ms", "lower"),
    ("decide.ms_tail", "ms", "lower"),
    ("decide.tail_pct", "%", "higher"),
    ("decide.active_flows_mean", "count", "higher"),
    ("fvdf.order_s", "s", "lower"),
    ("fvdf.grant_cores_s", "s", "lower"),
    ("fvdf.demand_fill_s", "s", "lower"),
    ("fvdf.backfill_s", "s", "lower"),
    ("fvdf.beta_granted_ratio", "ratio", "higher"),
    ("results.summary_s", "s", "lower"),
    ("trace.export_s", "s", "lower"),
    ("trace.records", "count", "lower"),
    ("trace.bytes", "bytes", "lower"),
    ("engine.drain_s", "s", "lower"),
    ("engine.rows_evicted", "count", "higher"),
    ("checkpoint.s", "s", "lower"),
    ("checkpoint.count", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.ms_max", "ms", "lower"),
    ("plane.on_tick_s", "s", "lower"),
    ("driver.self_s", "s", "lower"),
    ("driver.ticks", "count", "lower"),
    ("driver.restamped", "count", "lower"),
    ("driver.peak_in_flight", "count", "lower"),
    ("driver.peak_live_rows", "count", "lower"),
    ("pool.parent_s", "s", "lower"),
    ("pool.cells", "count", "higher"),
    ("pool.cell_s_sum", "s", "lower"),
    ("pool.efficiency", "ratio", "higher"),
    *[(f"pool.cell_s.{p}", "s", "lower") for p in SweepGrid.policies],
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.warm_s", "s", "lower"),
    ("shm.cells", "count", "higher"),
    ("shm.bytes", "bytes", "lower"),
    ("shm.attach_s", "s", "lower"),
]

#: Layer -> (metric it should move, on which workload): the end-to-end
#: cpu_s / flows_per_cpu_s, or the traced run's wall-clock step_ms_*.
#: Written down before measuring, so a later change claims against it.
PREDICTIONS = {
    "arrivals.*": ("flows_per_cpu_s; step_ms_p50", "stream-serve; absent elsewhere"),
    "ingest.*": ("cpu_s", "fb-replay; small on stream-serve, none on burst-decide"),
    "engine.view_s": ("cpu_s", "every engine workload, small: guards regroup changes"),
    "decide.*": ("cpu_s, flows_per_cpu_s", "burst-decide; minor elsewhere"),
    "fvdf.*": ("cpu_s", "burst-decide"),
    "engine.advance_s": ("cpu_s", "fb-replay, where it is largest"),
    "results.summary_s": ("cpu_s", "fb-replay"),
    "trace.*": ("cpu_s", "fb-replay"),
    "engine.drain_s": ("flows_per_cpu_s", "stream-serve"),
    "checkpoint.*": ("step_ms_p95", "stream-serve"),
    "plane.on_tick_s": ("step_ms_p50", "stream-serve"),
    "driver.*": ("flows_per_cpu_s", "stream-serve"),
    "pool.*": ("cpu_s, flows_per_cpu_s", "sweep-grid"),
    "cache.*": ("cpu_s", "sweep-grid"),
    "shm.*": ("cpu_s", "sweep-grid"),
}


def tail_percentile(n: int) -> float:
    """The highest usual percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def per_layer(tracers, passes, untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, as per-pass means over the traced passes."""
    n = len(tracers)
    values = {name: 0.0 for name, _, _ in METRICS}
    for tracer in tracers:
        for span, secs in tracer.self_times().items():
            values[ROWS[span]] += secs / n
    wall = sum(d for t in tracers for d in t.durations("pass")) / n
    values["traced.wall_s"] = wall
    # Steps: decision intervals, service ticks or pool cells (wall).
    steps = np.concatenate([p.steps_s for p in passes])
    values["step_ms_p50"] = float(np.percentile(steps, 50)) * 1e3
    values["step_ms_p95"] = float(np.percentile(steps, 95)) * 1e3
    values["coverage"] = 1.0 - values["unattributed_s"] / wall
    values["trace_overhead"] = (
        statistics.median(p.wall_s for p in passes) / untraced_wall - 1.0
    )
    decide = [d for t in tracers for d in t.durations("decide")]
    if decide:
        pct = tail_percentile(len(decide))
        active = [a for t in tracers for a in t.samples["decide.active_flows"]]
        values.update({
            "decide.s": sum(decide) / n,
            "decide.calls": len(decide) / n,
            "decide.ms_p50": float(np.percentile(decide, 50)) * 1e3,
            "decide.ms_tail": float(np.percentile(decide, pct)) * 1e3,
            "decide.tail_pct": pct,
            "decide.active_flows_mean": float(np.mean(active)),
        })

    def total(key):
        return sum(t.counts.get(key, 0.0) for t in tracers)

    if total("fvdf.cores_wanted"):
        values["fvdf.beta_granted_ratio"] = (
            total("fvdf.cores_granted") / total("fvdf.cores_wanted")
        )
    for key in ("arrivals.flows", "ingest.flows", "engine.rows_evicted",
                "checkpoint.bytes"):
        values[key] = total(key) / n
    if values["arrivals.flows"]:
        values["arrivals.us_per_flow"] = (
            values["arrivals.pop_block_s"] / values["arrivals.flows"] * 1e6
        )
    checkpoints = [d for t in tracers for d in t.durations("checkpoint")]
    if checkpoints:
        values["checkpoint.count"] = len(checkpoints) / n
        values["checkpoint.ms_max"] = max(checkpoints) * 1e3
    for key in {k for p in passes for k in p.counters}:
        values[key] = float(np.mean([p.counters[key] for p in passes]))
    units = {name: unit for name, unit, _ in METRICS}
    return {name: (float(values[name]), units[name]) for name, _, _ in METRICS}


def row_sum(metrics) -> float:
    """The layer rows plus ``unattributed_s``: equal to ``traced.wall_s``."""
    return sum(metrics[row][0] for row in set(ROWS.values()))
