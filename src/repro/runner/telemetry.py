"""Pool-wide telemetry: per-worker snapshots merged into a run report.

A sweep that fans out over a process pool is observable only if each
worker ships its measurements home.  The unit shipped is a
:class:`TelemetrySnapshot` — one executed spec's metrics registry dump
(typed, mergeable — see :meth:`repro.obs.metrics.MetricsRegistry.dump`),
the worker's pid, wall/CPU time and peak RSS, and an optional flight
recorder summary.  Snapshots are plain dataclasses of JSON-able values,
so they pickle compactly across the result pipe and serialize straight
into ``report.json``.

The parent folds every snapshot (plus the parent-side cache counters —
workers never touch the cache) into a :class:`RunTelemetry`, which is
what ``python -m repro report`` renders: merged metrics, per-policy
aggregates, per-worker load skew, cache effectiveness.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry

__all__ = ["RunTelemetry", "TelemetrySnapshot"]


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB (0 if unknown)."""
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak //= 1024
    return int(peak)


@dataclass
class TelemetrySnapshot:
    """One executed spec's worth of worker-side measurements."""

    key: str
    policy: str
    pid: int
    wall_s: float
    cpu_s: float
    peak_rss_kb: int
    #: typed metrics dump (see ``MetricsRegistry.dump``).
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: ``FlightRecorder.summary()`` when a recorder was attached.
    recorder: Optional[Dict[str, Any]] = None

    @classmethod
    def capture(
        cls,
        key: str,
        policy: str,
        obs: Observability,
        wall_s: float,
        cpu_s: float,
    ) -> "TelemetrySnapshot":
        """Snapshot an observability bundle after a run."""
        return cls(
            key=key,
            policy=policy,
            pid=os.getpid(),
            wall_s=float(wall_s),
            cpu_s=float(cpu_s),
            peak_rss_kb=_peak_rss_kb(),
            metrics=obs.metrics.dump(),
            recorder=(
                obs.recorder.summary() if obs.recorder.enabled else None
            ),
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "policy": self.policy,
            "pid": self.pid,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_kb": self.peak_rss_kb,
            "metrics": self.metrics,
            "recorder": self.recorder,
        }


@dataclass
class RunTelemetry:
    """Everything observed about one pooled sweep, merged parent-side."""

    snapshots: List[TelemetrySnapshot] = field(default_factory=list)
    workers: int = 0
    wall_s: float = 0.0
    cells: int = 0
    cached_cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt: int = 0
    #: cells whose array columns came home over shared memory, and the
    #: total segment bytes that never touched the pickle pipe.
    shm_cells: int = 0
    shm_bytes: int = 0

    @classmethod
    def collect(
        cls,
        outcomes,
        workers: int,
        wall_s: float,
        cache=None,
    ) -> "RunTelemetry":
        """Fold a ``run_specs`` outcome list (+ the parent's cache)."""
        tele = cls(workers=int(workers), wall_s=float(wall_s))
        for out in outcomes:
            tele.cells += 1
            if out.cached:
                tele.cached_cells += 1
            if getattr(out, "shm_collected", False):
                tele.shm_cells += 1
                tele.shm_bytes += int(getattr(out, "shm_bytes", 0))
            if out.telemetry is not None:
                tele.snapshots.append(out.telemetry)
        if cache is not None:
            stats = cache.stats()
            tele.cache_hits = stats["hits"]
            tele.cache_misses = stats["misses"]
            tele.cache_corrupt = stats.get("corrupt", 0)
        return tele

    # ---------------------------------------------------------- aggregates
    def merged_metrics(self) -> MetricsRegistry:
        """One registry holding every worker's metrics, merged in spec
        order (counters add, gauges max, histograms combine)."""
        reg = MetricsRegistry(enabled=True)
        for snap in self.snapshots:
            reg.merge(snap.metrics)
        return reg

    def by_policy(self) -> Dict[str, List[TelemetrySnapshot]]:
        out: Dict[str, List[TelemetrySnapshot]] = {}
        for snap in self.snapshots:
            out.setdefault(snap.policy, []).append(snap)
        return out

    def worker_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-worker-process load: cells executed, wall/CPU, peak RSS."""
        out: Dict[int, Dict[str, float]] = {}
        for snap in self.snapshots:
            w = out.setdefault(
                snap.pid,
                {"cells": 0, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_kb": 0},
            )
            w["cells"] += 1
            w["wall_s"] += snap.wall_s
            w["cpu_s"] += snap.cpu_s
            w["peak_rss_kb"] = max(w["peak_rss_kb"], snap.peak_rss_kb)
        return out

    def skew(self) -> float:
        """Load imbalance: max worker busy-time over the mean (1.0 =
        perfectly balanced; 0.0 when nothing executed)."""
        stats = self.worker_stats()
        if not stats:
            return 0.0
        walls = [w["wall_s"] for w in stats.values()]
        mean = sum(walls) / len(walls)
        return max(walls) / mean if mean > 0 else 0.0


class _Stopwatch:
    """Wall + process-CPU timer for one executed spec."""

    __slots__ = ("wall0", "cpu0", "wall_s", "cpu_s")

    def __enter__(self) -> "_Stopwatch":
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.wall0
        self.cpu_s = time.process_time() - self.cpu0
