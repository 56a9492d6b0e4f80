"""Run-level telemetry reports for pooled sweeps (``python -m repro report``).

Takes the :class:`~repro.runner.telemetry.RunTelemetry` a pooled sweep
collected — one :class:`~repro.runner.telemetry.TelemetrySnapshot` per
executed cell plus the parent's cache counters — and turns it into:

* :func:`build_report` — a JSON-able dict (schema :data:`SCHEMA`) with
  the merged metrics, per-policy aggregates (decision latency, bytes
  sent, compression core claims), per-worker load split and cache
  effectiveness;
* :func:`render_report` — the terminal rendering of the same data.

The report answers the questions a sweep leaves behind: which policy
spent its time where, did the pool balance, did the cache help.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.analysis.tables import render_table
from repro.runner.telemetry import RunTelemetry

__all__ = ["SCHEMA", "build_report", "render_report", "write_report"]

#: Schema tag of ``report.json`` (bump on breaking layout changes).
SCHEMA = "repro-report-v1"


def _metric(dump: Dict[str, Dict[str, Any]], name: str, field: str = "value"):
    entry = dump.get(name)
    return entry.get(field, 0) if entry else 0


def _aggregate(snapshots) -> Dict[str, Any]:
    """Fold a snapshot list into one aggregate block (merged metrics +
    summed wall/CPU)."""
    reg_dump: Dict[str, Dict[str, Any]] = {}
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry(enabled=True)
    wall = cpu = 0.0
    records = 0
    for snap in snapshots:
        reg.merge(snap.metrics)
        wall += snap.wall_s
        cpu += snap.cpu_s
        if snap.recorder:
            records += int(snap.recorder.get("records", 0))
    reg_dump = reg.dump()
    decisions = _metric(reg_dump, "engine.decisions")
    latency = reg_dump.get("engine.decision_latency", {})
    claims = _metric(reg_dump, "engine.core_claims")
    return {
        "cells": len(snapshots),
        "wall_s": round(wall, 6),
        "cpu_s": round(cpu, 6),
        "decisions": int(decisions),
        # Explicit nulls, not 0.0: a cell with zero decisions (empty
        # workload, or metrics disabled) has no latency to average, and
        # "0us" would read as a measurement.
        "decision_latency_mean_s": (
            float(latency["sum"]) / int(latency["count"])
            if latency.get("count") else None
        ),
        "bytes_sent": float(_metric(reg_dump, "engine.bytes_sent")),
        "flow_completions": int(_metric(reg_dump, "engine.flow_completions")),
        "core_claims": int(claims),
        "core_claims_per_decision": (
            float(claims) / float(decisions) if decisions else None
        ),
        "recorder_records": records,
        "metrics": reg_dump,
    }


def build_report(
    telemetry: RunTelemetry,
    grid: Dict[str, Any],
    label: str = "",
    window: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the ``report.json`` payload from merged telemetry.

    ``window`` is a :meth:`repro.obs.window.RollingWindow.snapshot`
    from a streamed run's telemetry plane; pooled sweeps have no live
    window, so the key is an explicit ``null`` (rendered ``n/a``) —
    never absent, never zeros.
    """
    per_policy = {
        policy: _aggregate(snaps)
        for policy, snaps in sorted(telemetry.by_policy().items())
    }
    workers_detail = {
        str(pid): {
            "cells": int(w["cells"]),
            "wall_s": round(w["wall_s"], 6),
            "cpu_s": round(w["cpu_s"], 6),
            "peak_rss_kb": int(w["peak_rss_kb"]),
        }
        for pid, w in sorted(telemetry.worker_stats().items())
    }
    executed = telemetry.cells - telemetry.cached_cells
    return {
        "schema": SCHEMA,
        "label": label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "grid": grid,
        "cells": telemetry.cells,
        "executed_cells": executed,
        "cached_cells": telemetry.cached_cells,
        "workers": telemetry.workers,
        "wall_s": round(telemetry.wall_s, 6),
        # An all-cache-hit sweep executes nothing: no snapshots, no load
        # to balance — skew is undefined, not 0x.
        "skew": (
            round(telemetry.skew(), 4) if telemetry.snapshots else None
        ),
        "cache": {
            "hits": telemetry.cache_hits,
            "misses": telemetry.cache_misses,
            "corrupt_dropped": telemetry.cache_corrupt,
        },
        "totals": telemetry.merged_metrics().dump(),
        "policies": per_policy,
        "workers_detail": workers_detail,
        "window": window,
    }


def _fmt(value, spec: str, suffix: str = "") -> str:
    """Format a possibly-null report field (``None`` renders as n/a)."""
    return "n/a" if value is None else f"{value:{spec}}{suffix}"


def render_report(report: Dict[str, Any]) -> str:
    """Terminal summary of one :func:`build_report` payload."""
    lines = []
    lines.append(render_table(
        ["policy", "cells", "wall", "decisions", "latency (mean)",
         "bytes sent", "claims/decision"],
        [
            [
                policy,
                str(p["cells"]),
                f"{p['wall_s']:.2f}s",
                str(p["decisions"]),
                _fmt(
                    None if p["decision_latency_mean_s"] is None
                    else p["decision_latency_mean_s"] * 1e6,
                    ".0f", "us",
                ),
                f"{p['bytes_sent']:.3g}",
                _fmt(p["core_claims_per_decision"], ".2f"),
            ]
            for policy, p in report["policies"].items()
        ],
        title=(
            f"sweep telemetry — {report['cells']} cells "
            f"({report['executed_cells']} executed, "
            f"{report['cached_cells']} cached), "
            f"{report['workers']} workers, wall {report['wall_s']:.2f}s"
        ),
    ))
    if report["workers_detail"]:
        lines.append("")
        lines.append(render_table(
            ["worker pid", "cells", "busy", "cpu", "peak rss"],
            [
                [
                    pid,
                    str(w["cells"]),
                    f"{w['wall_s']:.2f}s",
                    f"{w['cpu_s']:.2f}s",
                    f"{w['peak_rss_kb'] / 1024:.0f}MB",
                ]
                for pid, w in report["workers_detail"].items()
            ],
            title=(
                "worker load "
                f"(skew {_fmt(report['skew'], '.2f', 'x')} max/mean)"
            ),
        ))
    cache = report["cache"]
    total = cache["hits"] + cache["misses"]
    hit_pct = 100.0 * cache["hits"] / total if total else 0.0
    lines.append(
        f"\ncache: {cache['hits']} hits / {cache['misses']} misses "
        f"({hit_pct:.0f}% hit rate"
        + (
            f", {cache['corrupt_dropped']} corrupt dropped)"
            if cache["corrupt_dropped"] else ")"
        )
    )
    window = report.get("window")
    if window is None:
        lines.append("live window: n/a (telemetry plane off)")
    else:
        rates = window.get("rates_per_s") or {}
        tick_wall = window.get("tick_wall_s") or {}

        def rate(key):
            v = rates.get(key)
            return "n/a" if v is None else f"{v:,.1f}/s"

        lines.append(
            f"live window ({window.get('ticks', 0)} ticks, "
            f"{window.get('span_wall_s', 0.0):.1f}s): "
            f"admitted {rate('flows_admitted')}, "
            f"retired {rate('flows_retired')}, "
            f"restamped {rate('restamped')}, "
            f"tick p95 {tick_wall.get('p95', 0.0) * 1e3:.1f}ms"
        )
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path) -> Path:
    """Write the payload as ``report.json``-style output; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path
