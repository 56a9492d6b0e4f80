"""Metric computation over simulation results.

All of the paper's evaluation numbers are derived here: average FCT/CCT and
their CDFs (Fig. 6a–e, 7c), speedup ratios ("FVDF outperforms X by up to
N×"), per-size-bin breakdowns (Fig. 6b), percentile-filtered traces
(Fig. 6a), job-throughput windows (Table V) and traffic accounting
(Table VII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.coflow import CoflowResult
from repro.core.flow import FlowResult
from repro.core.results import LazyCoflowResults, LazyFlowResults
from repro.core.simulator import SimulationResult
from repro.errors import ConfigurationError


def _flow_sizes(flows: Sequence[FlowResult]) -> np.ndarray:
    """Per-flow sizes without materializing a lazy columnar sequence."""
    if isinstance(flows, LazyFlowResults):
        return flows.store.size
    return np.asarray([f.size for f in flows], dtype=np.float64)


def _flow_fcts(flows: Sequence[FlowResult]) -> np.ndarray:
    """Per-flow completion times, columnar when the sequence is lazy."""
    if isinstance(flows, LazyFlowResults):
        store = flows.store
        return store.finish - store.arrival
    return np.asarray([f.fct for f in flows], dtype=np.float64)


def _coflow_ccts(coflows: Sequence[CoflowResult]) -> np.ndarray:
    """Per-coflow completion times, columnar when the sequence is lazy."""
    if isinstance(coflows, LazyCoflowResults):
        store = coflows.store
        return store.cf_finish - store.cf_arrival
    return np.asarray([c.cct for c in coflows], dtype=np.float64)


# --------------------------------------------------------------------------- CDF
def empirical_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted values, cumulative fractions)`` for CDF plots."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    if len(x) == 0:
        return x, x
    y = np.arange(1, len(x) + 1, dtype=np.float64) / len(x)
    return x, y


def cdf_at(values: Sequence[float], points: Sequence[float]) -> np.ndarray:
    """Evaluate the empirical CDF of ``values`` at ``points``."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    pts = np.asarray(points, dtype=np.float64)
    if len(x) == 0:
        return np.zeros_like(pts)
    return np.searchsorted(x, pts, side="right") / len(x)


# ---------------------------------------------------------------------- speedup
def speedup(baseline: float, ours: float) -> float:
    """How many times faster ``ours`` is than ``baseline`` (paper's "N×")."""
    if ours <= 0:
        raise ConfigurationError("cannot compute speedup over zero time")
    return baseline / ours


# ------------------------------------------------------------------- flow level
def avg_fct(flows: Iterable[FlowResult]) -> float:
    if isinstance(flows, LazyFlowResults):
        vals = _flow_fcts(flows)
    else:
        vals = np.asarray([f.fct for f in flows], dtype=np.float64)
    return float(np.mean(vals)) if vals.size else 0.0


def fct_values(result: SimulationResult) -> np.ndarray:
    return result.fct_array


def filter_flows_by_size_percentile(
    flows: Sequence[FlowResult], keep_fraction: float
) -> List[FlowResult]:
    """Keep the largest ``keep_fraction`` of flows by size.

    Fig. 6(a)'s "97% flows"/"95% flows" settings filter out the smallest
    flows (kilobyte-scale) before computing averages.
    """
    if not 0 < keep_fraction <= 1:
        raise ConfigurationError("keep_fraction must lie in (0, 1]")
    if keep_fraction == 1.0 or not flows:
        return list(flows)
    sizes = _flow_sizes(flows)
    cutoff = np.quantile(sizes, 1.0 - keep_fraction)
    # Boolean mask instead of a per-flow Python comparison; only the
    # surviving flows are materialized when ``flows`` is lazy.
    idx = np.nonzero(sizes >= cutoff)[0]
    return [flows[int(i)] for i in idx]


def fct_by_size_bins(
    flows: Sequence[FlowResult], edges: Sequence[float]
) -> Dict[str, float]:
    """Average FCT per flow-size bin (Fig. 6(b)).

    ``edges`` are interior bin boundaries in bytes; n+1 bins result.
    Bins are keyed ``"[lo, hi)"`` and listed in order of first
    occurrence among the flows; empty bins are omitted.
    """
    edges = sorted(edges)
    bounds = [0.0] + list(edges) + [float("inf")]
    sizes = _flow_sizes(flows)
    fcts = _flow_fcts(flows)
    # digitize assigns each flow its unique [lo, hi) bin — one pass over
    # the flows replaces the old O(flows x bins) membership scan.
    bins = np.digitize(sizes, edges)
    present, first = np.unique(bins, return_index=True)
    out: Dict[str, float] = {}
    for b in present[np.argsort(first, kind="stable")]:
        label = f"[{bounds[b]:g}, {bounds[b + 1]:g})"
        out[label] = float(np.mean(fcts[bins == b]))
    return out


# ----------------------------------------------------------------- coflow level
def avg_cct(coflows: Iterable[CoflowResult]) -> float:
    if isinstance(coflows, LazyCoflowResults):
        vals = _coflow_ccts(coflows)
    else:
        vals = np.asarray([c.cct for c in coflows], dtype=np.float64)
    return float(np.mean(vals)) if vals.size else 0.0


def cct_values(result: SimulationResult) -> np.ndarray:
    return result.cct_array


# -------------------------------------------------------------------- job level
def throughput_windows(
    completions: Sequence[float], window: float, num_windows: int
) -> np.ndarray:
    """Cumulative completions at the end of each window (Table V).

    Table V reports, per 2000 s "time unit", the cumulative number of jobs
    completed by the end of units 1..6.
    """
    if window <= 0 or num_windows <= 0:
        raise ConfigurationError("window and num_windows must be positive")
    ends = (np.arange(num_windows) + 1) * window
    comp = np.sort(np.asarray(completions, dtype=np.float64))
    return np.searchsorted(comp, ends, side="right").astype(np.int64)


def completion_rates(
    completions: Sequence[float], window: float, num_windows: int
) -> Tuple[float, float, float]:
    """(MAX, MIN, AVG) completions per second over the windows (Table V)."""
    cum = throughput_windows(completions, window, num_windows)
    per_window = np.diff(np.concatenate([[0], cum])) / window
    if len(per_window) == 0:
        return 0.0, 0.0, 0.0
    return float(per_window.max()), float(per_window.min()), float(per_window.mean())


# --------------------------------------------------------------------- traffic
@dataclass
class TrafficSummary:
    """Bytes on the wire vs original bytes (Table VII / Fig. 7b)."""

    original: float
    sent: float

    @property
    def reduction(self) -> float:
        return 1.0 - self.sent / self.original if self.original > 0 else 0.0

    @classmethod
    def of(cls, result: SimulationResult) -> "TrafficSummary":
        return cls(
            original=result.total_bytes_original, sent=result.total_bytes_sent
        )


# --------------------------------------------------------------------- summary
@dataclass
class RunSummary:
    """One row of a comparison table: a policy's headline metrics."""

    name: str
    avg_fct: float
    avg_cct: float
    makespan: float
    traffic: TrafficSummary

    @classmethod
    def of(cls, name: str, result: SimulationResult) -> "RunSummary":
        return cls(
            name=name,
            avg_fct=result.avg_fct,
            avg_cct=result.avg_cct,
            makespan=result.makespan,
            traffic=TrafficSummary.of(result),
        )


def compare(
    summaries: Sequence[RunSummary], baseline: str, metric: str = "avg_cct"
) -> Dict[str, float]:
    """Speedup of every run over the named baseline on a metric."""
    by_name = {s.name: s for s in summaries}
    if baseline not in by_name:
        raise ConfigurationError(f"unknown baseline {baseline!r}")
    base = getattr(by_name[baseline], metric)
    return {s.name: speedup(base, getattr(s, metric)) for s in summaries}
